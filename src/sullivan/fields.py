"""Exact coefficient fields: the rationals Q and the Gaussian rationals Q(i).

Every coefficient in the engine is an exact field element; no floating point
is used anywhere.  The two concrete fields are exposed as the singletons
``QQ`` and ``QI``.  A field object knows how to coerce its scalars; the
scalars themselves are immutable and hashable.  A real scalar is a
``fractions.Fraction`` in both fields, and a Q(i) scalar with nonzero
imaginary part is a ``GaussianRational``, so real arithmetic over Q(i) runs
on ``Fraction`` alone.  Scalar text is read and written by ``parsing``, in
the grammar of elements.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class GaussianRational:
    """A number a + b*i with exact rational a and nonzero rational b.

    A Q(i) scalar with zero imaginary part is a plain ``Fraction``:
    ``GaussianRational(a, 0)`` returns ``Fraction(a)``, and so does every
    arithmetic result that turns out real.  A ``Fraction`` operand is read
    as a + 0*i, so the two types mix freely in ``+ - * /`` and ``==``."""

    __slots__ = ("re", "im")

    def __new__(cls, re=0, im=0):
        if not isinstance(re, Fraction):
            re = Fraction(re)
        if not isinstance(im, Fraction):
            im = Fraction(im)
        if not im:
            return re
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # immutable, so a copy is the value itself
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            n = other.re * other.re + other.im * other.im
            return GaussianRational(
                (self.re * other.re + self.im * other.im) / n,
                (self.im * other.re - self.re * other.im) / n,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            n = self.re * self.re + self.im * self.im
            return GaussianRational(other * self.re / n, -other * self.im / n)
        return NotImplemented

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        from .parsing import format_scalar  # parsing imports this module

        return format_scalar(self)


_I = GaussianRational(0, 1)


class RationalField:
    """The field Q, with scalars represented by fractions.Fraction."""

    name = "Q"
    has_imaginary_unit = False

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, GaussianRational):
            raise FieldError(f"cannot coerce {x} into Q: nonzero imaginary part")
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
    """The field Q(i): real scalars are Fractions, the rest GaussianRationals."""

    name = "Qi"
    has_imaginary_unit = True

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, (Fraction, GaussianRational)):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldError(f"cannot coerce {x!r} into Q(i)")

    def is_real(self, x) -> bool:
        return not isinstance(self.coerce(x), GaussianRational)

    def fraction(self, p, q=1):
        if q == 0:
            raise ZeroDivisionError("zero denominator")
        return Fraction(p, q)

    def imaginary_unit(self):
        return _I

    def __repr__(self):
        return "QI"


QQ = RationalField()
QI = GaussianRationalField()

FIELDS = {"Q": QQ, "Qi": QI}
