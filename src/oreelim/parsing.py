"""Text formats for fields, field elements, and Ore polynomials.

Grammar (shared by all polynomial inputs; ASCII whitespace is insignificant):

    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := "-" factor | atom ["^" INT]
    atom    := INT | NAME | "(" expr ")"

Tokens are ASCII: INT is [0-9]+ and NAME is [A-Za-z_][A-Za-z0-9_]*.
Multiplication must be written with "*"; the factor order is preserved, which
matters because the indeterminates do not commute with coefficients.
Reserved names: ``t`` (field generator), ``x`` (univariate), ``x1``/``x2``
(bivariate).  Field specs look like ``GF(2^2; modulus = 1 + t + t^2)``; the
modulus may be omitted to pick the deterministic default.  Errors carry the
1-based column of the offending token.

Printing is handled by the value types themselves (`FieldElem.__str__`,
`OrePoly.text`, `BivarOrePoly.text`, all on `field._format_terms`);
parse(print(v)) == v on canonical forms.  Field specs are walked by the same
`_Parser`, so errors inside a modulus report columns of the whole spec.
"""

from __future__ import annotations

from string import ascii_letters, digits, whitespace

from .errors import ParseError
from .field import Automorphism, field_new
from .ore_bivar import BivarRing
from .ore_uni import OreRing

_SYMBOLS = "+-*^();="
# ASCII only: str.isdigit also accepts characters such as '²' that int() rejects
_NAME_CHARS = ascii_letters + digits + "_"  # a leading digit starts an INT


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in whitespace:  # ASCII only, like the tokens
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in digits:
            j = i
            while j < n and text[j] in digits:
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch in _NAME_CHARS:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", column=i + 1)
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    def __init__(self, text, names, const):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names
        self.const = const

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "END" else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {found}", column=tok[2] + 1)
        return tok

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            value = value * self.parse_factor()
        return value

    def parse_factor(self):
        if self.peek()[0] == "-":
            self.next()
            return -self.parse_factor()
        value = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("INT")
            value = value ** tok[1]
        return value

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "INT":
            return self.const(val)
        if kind == "NAME":
            if val not in self.names:
                raise ParseError(f"unknown name {val!r}", column=pos + 1)
            return self.names[val]
        if kind == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        if kind == "END":
            raise ParseError("unexpected end of input", column=pos + 1)
        raise ParseError(f"unexpected token {val!r}", column=pos + 1)

    def finish(self, value):
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"trailing input {tok[1]!r}", column=tok[2] + 1)
        return value


def parse_element(text, ctx):
    """A field element written as a polynomial in t, e.g. ``t + 1``."""
    parser = _Parser(text, {"t": ctx.elem(ctx.t_packed)}, ctx.from_int)
    return parser.finish(parser.parse_expr())


def parse_ore_poly(text, ring, var="x"):
    """A univariate skew polynomial, e.g. ``(t+1)*x^2 + t*x + 1``."""
    ctx = ring.ctx
    names = {var: ring.x(), "t": ring.constant(parse_element("t", ctx))}
    parser = _Parser(text, names, ring.constant)
    return parser.finish(parser.parse_expr())


def parse_bivar_poly(text, ring):
    """A bivariate Ore polynomial with reserved names x1, x2, t."""
    ctx = ring.ctx
    names = {
        "x1": ring.x1(),
        "x2": ring.x2(),
        "t": ring.constant(parse_element("t", ctx)),
    }
    parser = _Parser(text, names, ring.constant)
    return parser.finish(parser.parse_expr())


def parse_field_spec(text):
    """``GF(p)``, ``GF(p^m)`` or ``GF(p^m; modulus = c0 + c1*t + ... + t^m)``."""
    parser = _Parser(text, {}, None)
    name = parser.expect("NAME")
    if name[1] != "GF":
        raise ParseError("field spec must start with GF", column=name[2] + 1)
    parser.expect("(")
    p = parser.expect("INT")[1]
    m = 1
    if parser.peek()[0] == "^":
        parser.next()
        m = parser.expect("INT")[1]
    modulus = None
    if parser.peek()[0] == ";":
        parser.next()
        key = parser.expect("NAME")
        if key[1] != "modulus":
            raise ParseError("expected 'modulus' after ';'", column=key[2] + 1)
        parser.expect("=")
        # the modulus is an ordinary polynomial over GF(p) in t
        prime = field_new(p, 1)
        ring = OreRing(prime, Automorphism(prime, 0))
        parser.names, parser.const = {"t": ring.x()}, ring.constant
        modulus = list(parser.parse_expr().coeffs)
    parser.expect(")")
    return field_new(p, m, modulus=parser.finish(modulus))


def make_rings(ctx, e1, e2):
    """The bivariate ring (and its inner ring) for Frobenius exponents e1, e2."""
    return BivarRing(ctx, Automorphism(ctx, e1), Automorphism(ctx, e2))
