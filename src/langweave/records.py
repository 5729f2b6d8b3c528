"""Record classes, defined without generating code.

A record class lists its fields as its `__slots__`, in order, and gives
defaults for its trailing fields as class keywords:

    class NtUse(Value, ins=None, outs=None):
        __slots__ = ("name", "ins", "outs")

It gets an `__init__` taking the fields positionally, unless it has none
or defines its own, and a repr `Name(field=value, ...)`.  A `Record` is mutable, equal to
a record of its own type with equal fields, and unhashable.  A `Value` is
the same but frozen, and hashes by its fields.  An `Ident` is frozen and
equal only to itself.  A slot named `__dict__` is not a field: it gives a
record room for a value cached after construction.

The `__init__` is a closure over the slots' setters, one kind per field
count, so class creation compiles nothing (`dataclasses` compiles each
method) and keeps start-up short.  There is no metaclass, which would put
every `isinstance` check on a record class on a slow path.
"""


def _init1(s0):
    def __init__(self, a):
        s0(self, a)
    return __init__


def _init2(s0, s1):
    def __init__(self, a, b):
        s0(self, a)
        s1(self, b)
    return __init__


def _init3(s0, s1, s2):
    def __init__(self, a, b, c):
        s0(self, a)
        s1(self, b)
        s2(self, c)
    return __init__


def _init4(s0, s1, s2, s3):
    def __init__(self, a, b, c, d):
        s0(self, a)
        s1(self, b)
        s2(self, c)
        s3(self, d)
    return __init__


def _init5(s0, s1, s2, s3, s4):
    def __init__(self, a, b, c, d, e):
        s0(self, a)
        s1(self, b)
        s2(self, c)
        s3(self, d)
        s4(self, e)
    return __init__


def _init6(s0, s1, s2, s3, s4, s5):
    def __init__(self, a, b, c, d, e, f):
        s0(self, a)
        s1(self, b)
        s2(self, c)
        s3(self, d)
        s4(self, e)
        s5(self, f)
    return __init__


_INITS = (None, _init1, _init2, _init3, _init4, _init5, _init6)


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        super().__init_subclass__()
        fields = tuple(f for f in cls.__dict__["__slots__"] if f != "__dict__")
        if tuple(defaults) != fields[len(fields) - len(defaults):]:
            raise TypeError(f"{cls.__name__}: defaults {tuple(defaults)} are not "
                            f"its last fields {fields}")
        cls._fields = fields
        if fields and "__init__" not in cls.__dict__:
            cls.__init__ = _INITS[len(fields)](*(cls.__dict__[f].__set__ for f in fields))
            cls.__init__.__defaults__ = tuple(defaults.values()) or None

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


class Value(Record):
    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __hash__(self):
        return hash(self._values())


class Ident(Record):
    __slots__ = ()
    __setattr__ = __delattr__ = _frozen
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def replace(record, **changes):
    """A copy of `record` with the named fields changed."""
    return type(record)(*(changes.get(f, getattr(record, f)) for f in record._fields))
