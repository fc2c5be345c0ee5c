"""Exception hierarchy shared by all leecodes modules, and the base of
their immutable value classes."""


class _Frozen:
    """Base of the library's value classes: immutable, compared by field.

    A subclass names in _fields, in constructor order, the fields that
    ==, hash and repr read, and its __init__ sets each once through
    object.__setattr__; _shown, when set, names the fields repr shows
    in their place.  Any other attribute, such as a column derived from
    the fields or a cached_property, is outside ==, hash and repr.
    Comparing with another class is NotImplemented, and setting or
    deleting an attribute raises AttributeError.  The classes are
    written by hand rather than with dataclasses: importing that module,
    with the inspect module it pulls in, and generating their methods
    made a cold `import leecodes.cli` take 62 ms against 40 ms without
    them (medians, no bytecode cache, CPython 3.11 on a 2-vCPU VM).
    """

    _fields = ()
    _shown = None

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._shown or self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LeeCodeError(Exception):
    """Base class for all library errors."""


class DimensionError(LeeCodeError):
    """Words of mismatched length were combined."""


class SizeError(LeeCodeError):
    """A set has the wrong cardinality for the requested operation."""


class DomainError(LeeCodeError):
    """An argument is outside the operation's domain."""


class MembershipError(LeeCodeError):
    """A vector is not a member of the required lattice."""


class PeriodicityError(LeeCodeError):
    """The code's period does not divide the requested modulus."""


class WindowError(LeeCodeError):
    """A verification window is too small or holds too little data."""


class ConstructionError(LeeCodeError):
    """An internal construction invariant was violated."""


class StructuralError(LeeCodeError):
    """A composite value is internally inconsistent."""


class DataFormatError(LeeCodeError):
    """Serialized input could not be parsed or validated."""
