"""Exact coefficient fields: the rationals Q and the Gaussian rationals Q(i).

Every coefficient in the engine is an exact field element; no floating point
is used anywhere.  The two concrete fields are exposed as the singletons
``QQ`` and ``QI``.  A field object knows how to coerce its scalars; the
scalars themselves are ``fractions.Fraction`` (for QQ) and
``GaussianRational`` (for QI), both immutable and hashable.  Scalar text is
read and written by ``parsing``, in the grammar of elements.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class GaussianRational:
    """A number a + b*i with exact rational a, b, stored in lowest terms."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if not isinstance(re, Fraction):
            re = Fraction(re)
        if not isinstance(im, Fraction):
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        from .parsing import format_scalar  # parsing imports this module

        return format_scalar(QI, self)


_I = GaussianRational(0, 1)


class RationalField:
    """The field Q, with scalars represented by fractions.Fraction."""

    name = "Q"
    has_imaginary_unit = False

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, GaussianRational):
            if x.im != 0:
                raise FieldError(f"cannot coerce {x} into Q: nonzero imaginary part")
            return x.re
        raise FieldError(f"cannot coerce {x!r} into Q")

    def is_real(self, x) -> bool:
        self.coerce(x)
        return True

    def fraction(self, p, q=1):
        if q == 0:
            raise ZeroDivisionError("zero denominator")
        return Fraction(p, q)

    def imaginary_unit(self):
        raise FieldError("Q has no imaginary unit")

    def __repr__(self):
        return "QQ"


class GaussianRationalField:
    """The field Q(i), with scalars represented by GaussianRational."""

    name = "Qi"
    has_imaginary_unit = True

    @property
    def zero(self):
        return GaussianRational(0)

    @property
    def one(self):
        return GaussianRational(1)

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise FieldError(f"cannot coerce {x!r} into Q(i)")

    def is_real(self, x) -> bool:
        return self.coerce(x).im == 0

    def fraction(self, p, q=1):
        if q == 0:
            raise ZeroDivisionError("zero denominator")
        return GaussianRational(Fraction(p, q))

    def imaginary_unit(self):
        return _I

    def __repr__(self):
        return "QI"


QQ = RationalField()
QI = GaussianRationalField()

FIELDS = {"Q": QQ, "Qi": QI}
