"""Tiny expression grammar for exact element arithmetic on the command line.

Tokens: integers, sN for sqrt(N) with N a basis radicand of the field,
operators + - * / ^ (integer exponents, negatives allowed), parentheses, and
the functions tr(...), norm(...), charpoly(...), pos(...).  tr and norm
evaluate to rationals and may be used inside further arithmetic; charpoly and
pos terminate evaluation with a polynomial or boolean result.

Literals, numerators and denominators are capped (``MAX_LITERAL_DIGITS``,
``MAX_BITS``), so work stays bounded and every result prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExprError
from .fields import FieldElement, MultiquadField

FUNCTIONS = ("tr", "norm", "charpoly", "pos")
MAX_LITERAL_DIGITS = 3000
MAX_BITS = 10_000


@dataclass(frozen=True)
class Token:
    kind: str  # int | sqrt | func | op | lparen | rparen | end
    text: str
    start: int
    end: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # not str.isdigit(), which takes digits int() refuses
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(Token("int", source[i:j], i, j))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and source[j].isalnum():
                j += 1
            word = source[i:j]
            if word[0] == "s" and word[1:].isascii() and word[1:].isdecimal():
                tokens.append(Token("sqrt", word, i, j))
            elif word in FUNCTIONS:
                tokens.append(Token("func", word, i, j))
            else:
                raise ExprError(f"unknown name '{word}'", i, j)
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(Token("op", ch, i, i + 1))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token("lparen", ch, i, i + 1))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token("rparen", ch, i, i + 1))
            i += 1
            continue
        raise ExprError(f"unexpected character '{ch}'", i, i + 1)
    tokens.append(Token("end", "", n, n))
    for tok in tokens:
        if len(tok.text) > MAX_LITERAL_DIGITS:
            raise ExprError(f"literal with more than {MAX_LITERAL_DIGITS} digits",
                            tok.start, tok.end)
    return tokens


@dataclass(frozen=True)
class PolyResult:
    coefficients: list[Fraction]  # constant term first, monic


@dataclass(frozen=True)
class BoolResult:
    value: bool


Result = FieldElement | PolyResult | BoolResult


def _bits(value: Result) -> int:
    """Largest bit length of a numerator or denominator in ``value``."""
    if isinstance(value, BoolResult):
        return 0
    numbers = value.coefficients if isinstance(value, PolyResult) else value.coeffs.values()
    return max((max(q.numerator.bit_length(), q.denominator.bit_length()) for q in numbers),
               default=0)


def _bounded(value: Result, start: int, end: int) -> Result:
    if _bits(value) > MAX_BITS:
        raise ExprError(f"value too large: a numerator or denominator exceeds {MAX_BITS} bits",
                        start, end)
    return value


class _Parser:
    def __init__(self, field: MultiquadField, tokens: list[Token]):
        self.field = field
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ExprError(f"expected '{want}', found '{tok.text or 'end of input'}'",
                            tok.start, tok.end)
        return self.take()

    def _element(self, value: Result, tok: Token) -> FieldElement:
        if isinstance(value, FieldElement):
            return _bounded(value, tok.start, tok.end)
        what = "charpoly" if isinstance(value, PolyResult) else "pos"
        raise ExprError(f"result of {what}(...) cannot be used in arithmetic",
                        tok.start, tok.end)

    def parse(self) -> Result:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"unexpected trailing '{tok.text}'", tok.start, tok.end)
        return _bounded(value, 0, tok.start)

    def expr(self) -> Result:
        tok = self.peek()
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take()
            rhs = self._element(self.term(), op)
            lhs = self._element(value, tok)
            value = lhs + rhs if op.text == "+" else lhs - rhs
        return value

    def term(self) -> Result:
        tok = self.peek()
        value = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            rhs = self._element(self.unary(), op)
            lhs = self._element(value, tok)
            if op.text == "*":
                value = lhs * rhs
            else:
                if not rhs:
                    raise ExprError("division by zero", op.start, op.end)
                value = lhs / rhs
        return value

    def unary(self) -> Result:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return -self._element(self.unary(), tok)
        return self.power()

    def power(self) -> Result:
        base_tok = self.peek()
        value = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.take()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.take()
                sign = -1
            exp_tok = self.expect("int")
            base = self._element(value, base_tok)
            exponent = sign * int(exp_tok.text)
            if exponent < 0 and not base:
                raise ExprError("zero has no inverse", caret.start, exp_tok.end)
            # A b-bit integer's e-th power has more than e*(b-1) bits; only 0
            # and +-1 stay small.  Refusing up front keeps the work bounded.
            if base not in (0, 1, -1) and abs(exponent) * max(1, _bits(base) - 1) > MAX_BITS:
                raise ExprError(f"power too large: the result would exceed {MAX_BITS} bits",
                                caret.start, exp_tok.end)
            value = base ** exponent
        return value

    def atom(self) -> Result:
        tok = self.take()
        if tok.kind == "int":
            return self.field.rational(int(tok.text))
        if tok.kind == "sqrt":
            radicand = int(tok.text[1:])
            try:
                return self.field.sqrt_term(radicand)
            except ValueError as exc:
                raise ExprError(str(exc), tok.start, tok.end)
        if tok.kind == "lparen":
            value = self.expr()
            self.expect("rparen")
            return value
        if tok.kind == "func":
            self.expect("lparen")
            inner_tok = self.peek()
            inner = self._element(self.expr(), inner_tok)
            self.expect("rparen")
            if tok.text == "tr":
                return self.field.rational(inner.trace())
            if tok.text == "norm":
                return self.field.rational(inner.norm())
            if tok.text == "charpoly":
                return PolyResult(inner.char_poly())
            return BoolResult(inner.is_totally_positive())
        raise ExprError(f"expected a value, found '{tok.text or 'end of input'}'",
                        tok.start, tok.end)


def evaluate(field: MultiquadField, source: str) -> Result:
    try:
        return _Parser(field, tokenize(source)).parse()
    except RecursionError:
        raise ExprError("expression nested too deeply", 0, len(source)) from None


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_result(value: Result) -> str:
    if isinstance(value, BoolResult):
        return "true" if value.value else "false"
    if isinstance(value, PolyResult):
        terms = []
        deg = len(value.coefficients) - 1
        for power in range(deg, -1, -1):
            c = value.coefficients[power]
            if not c:
                continue
            if power == 0:
                body = format_rational(abs(c))
            else:
                t = "T" if power == 1 else f"T^{power}"
                body = t if abs(c) == 1 else f"{format_rational(abs(c))}*{t}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"
    if isinstance(value, FieldElement):
        coeffs = value.coeffs
        if not coeffs:
            return "0"
        if set(coeffs) == {0}:
            return format_rational(coeffs[0])
        return repr(value)
    raise TypeError(f"unexpected result {value!r}")
