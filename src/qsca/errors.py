"""Exception types shared across the package, the integer reader the
text parsers share, the limits and variant names the command line
checks before it loads a library module, and `Frozen`, the base of the
package's value types.  It imports only `re`, so the parser is built
without numpy.  `StepDivergedError` is a bare name that nothing raises
any more."""

from __future__ import annotations

import re

MAX_RADIUS = 6  # dimension of U: 2^(2r+1) = 8192
GENERATOR_VARIANTS = ("literal", "verified")
RESET_VARIANTS = ("literal", "extended")
# the largest dense matrix a command builds or writes: 256 MiB of complex128
MAX_DENSE_DIMENSION = 4096

_DECIMAL = re.compile(r"-?[0-9]+")


class QscaError(Exception):
    """Base class for all package-specific errors."""


class StepDivergedError(QscaError):
    """Nothing raises it: a finite row always maps to a finite row (see
    `sca_core.step`), so a time step has no safety bound to pass.  The
    name stays, also as `sca_core.StepDivergedError`, because callers
    outside the package still catch it."""


class RadiusError(QscaError):
    """Radius outside the supported range for the requested construction."""


class DimensionTooLarge(QscaError):
    """A dense-matrix construction would exceed the configured size limit."""


class ParseError(QscaError):
    """Malformed text input.

    Attributes:
        line_no: 1-based line number of the offending line, when known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        where = "" if line_no is None else f"line {line_no}: "
        super().__init__(where + message)


def parse_int(token: str, line_no: int | None = None) -> int:
    """An ASCII decimal integer, `-?[0-9]+`.  Bare int() would also take
    `1_0`, a leading `+`, surrounding blanks and non-ASCII digits."""
    if not _DECIMAL.fullmatch(token):
        raise ParseError(f"bad integer {token!r}", line_no=line_no)
    return int(token)


class NotHermitian(QscaError):
    """A matrix expected to be Hermitian was not, within tolerance.

    Attributes:
        residual: max-norm of (H - H^dagger).
    """

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"matrix is not Hermitian (max residual {residual:.3e})")


class NotUnitary(QscaError):
    """A matrix expected to be unitary was not, within tolerance.

    Attributes:
        residual: max-norm of (U^dagger U - I).
    """

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"matrix is not unitary (max residual {residual:.3e})")


class Frozen:
    """Base of the package's immutable value types.

    The fields of a subclass are the parameters of its `__init__`, in
    order, which sets each one with `_assign`.  Two values are equal
    when their types match and their fields are, the hash agrees with
    that, the repr is `Type(field=value, ...)`, and assigning or
    deleting any attribute raises AttributeError.  Attributes that are
    not parameters, such as `Configuration.word` or a cached property,
    take no part in equality, hash or repr.  Copies and pickles keep
    the fields, as the instance dict holds them.
    """

    _fields: tuple[str, ...] = ()
    # object's own setter, as in a frozen dataclass: writing through
    # `__dict__` instead would build a separate dict per instance,
    # doubling its size and slowing every attribute read
    _assign = object.__setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
