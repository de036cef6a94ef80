"""Text expressions for algebra elements.

Grammar (whitespace insensitive, juxtaposition disallowed):

    element := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := INT ['/' INT] | 'i' | NAME ['^' INT]

`i` denotes the imaginary unit and is only legal over the field Q(i).
Canonical printing emits the same grammar, so parse(format(x)) == x.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import NAME, Element, mul_monomials
from .errors import SullivanError
from .fields import GaussianRational


class ParseError(SullivanError):
    """Syntax or semantic error in an element expression, with position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(rf"\s*(?:(?P<int>\d+)|(?P<name>{NAME})|(?P<op>[+\-*/^]))")


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, algebra):
        self.tokens = tokenize(text)
        self.idx = 0
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_int(self, what):
        kind, value, pos = self.advance()
        if kind != "int":
            raise ParseError(f"expected {what}", pos)
        return value, pos

    def parse_element(self):
        result = self.algebra.zero()
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        elif kind == "end":
            raise ParseError("empty expression", pos)
        while True:
            term = self.parse_term()
            result = result + (term.scale(-1) if sign < 0 else term)
            kind, value, pos = self.advance()
            if kind == "end":
                return result
            if kind == "op" and value in "+-":
                sign = -1 if value == "-" else 1
                continue
            raise ParseError(f"expected '+' or '-', got {value!r}", pos)

    def parse_term(self):
        coeff, mono, sign = self.algebra.field.one, (), 1
        while True:
            coeff, mono, sign = self.parse_factor(coeff, mono, sign)
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                continue
            break
        if sign < 0:
            coeff = -coeff
        return self.algebra.monomial(mono, coeff)

    def parse_factor(self, coeff, mono, sign):
        kind, value, pos = self.advance()
        if kind == "int":
            num = Fraction(value)
            nk, nv, npos = self.peek()
            if nk == "op" and nv == "/":
                self.advance()
                den, dpos = self.expect_int("a denominator")
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                num = Fraction(value, den)
            return coeff * self.algebra.field.coerce(num), mono, sign
        if kind == "name":
            if value == "i" and self.algebra.field.has_imaginary_unit:
                return coeff * self.algebra.field.imaginary_unit(), mono, sign
            if value not in self.algebra.by_name:
                raise ParseError(f"unknown generator {value!r}", pos)
            gen = self.algebra.generator(value)
            exp = 1
            nk, nv, npos = self.peek()
            if nk == "op" and nv == "^":
                self.advance()
                exp, epos = self.expect_int("an exponent")
                if exp < 1:
                    raise ParseError("exponent must be >= 1", epos)
            if gen.square_zero and exp > 1:
                raise ParseError(
                    f"generator {value!r} squares to zero; exponent {exp} is illegal", pos
                )
            s, new = mul_monomials(self.algebra, mono, ((gen.id, exp),))
            if s == 0:
                raise ParseError(
                    f"generator {value!r} squares to zero; repeated factor is illegal", pos
                )
            return coeff, new, sign * s
        raise ParseError("expected a coefficient or generator", pos)


def parse_element(text, algebra) -> Element:
    """Parse an expression into a canonical element of the algebra."""
    return _Parser(text, algebra).parse_element()


def format_element(element) -> str:
    """Canonical text form; round-trips through parse_element."""
    alg = element.algebra
    return _join_terms(
        (_term_text(alg, mono, piece), sgn)
        for mono in element.monomials()
        for piece, sgn in _coefficient_pieces(element.terms[mono])
    )


def format_scalar(coeff) -> str:
    """Text of a scalar in the same grammar ("0" for zero)."""
    return _join_terms(_coefficient_pieces(coeff))


def _join_terms(signed_bodies):
    chunks = []
    for body, sgn in signed_bodies:
        if not chunks:
            chunks.append(body if sgn > 0 else f"-{body}")
        else:
            chunks.append(("+ " if sgn > 0 else "- ") + body)
    return " ".join(chunks) or "0"


def _coefficient_pieces(coeff):
    """Split a coefficient into printable (text, sign) pieces.

    A real coefficient (a ``Fraction``) gives at most one piece.  A mixed
    coefficient a+bi gives two, so that the output stays inside the grammar
    (no parentheses are needed)."""
    if isinstance(coeff, GaussianRational):
        re, im = coeff.re, coeff.im
    else:
        re, im = coeff, 0
    pieces = []
    if re:
        pieces.append((str(abs(re)), 1 if re > 0 else -1))
    if im:
        text = "i" if abs(im) == 1 else f"{abs(im)}*i"
        pieces.append((text, 1 if im > 0 else -1))
    return pieces


def _term_text(alg, mono, coeff_text):
    if not mono:
        return coeff_text
    mono_text = alg.format_monomial(mono)
    return mono_text if coeff_text == "1" else f"{coeff_text}*{mono_text}"
