"""Tiny recursive-descent evaluator for ring expressions.

Grammar (integers, names, +, -, *, ^ and parentheses):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-'* atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

:func:`evaluate` applies +, unary -, * and ** directly to the values, so
it serves any ring whose elements support them: the presented rings
(through :func:`parse_expression`) and the fixed-point oracle algebra.
The caller supplies the unit (an integer literal n evaluates to one * n)
and a function that resolves a name at its position or raises ParseError.

The text is split into tokens by one compiled pattern, matched once per
token.  A name is a letter or '_' followed by letters, decimal digits
and '_'; an integer is a run of decimal digits (str.isdecimal); anything
else but whitespace and the operators is an "unexpected character" at
its position.  In a presented ring, sums, negations and integer
multiples of normal elements skip the rule search, and the unit and the
generators are built once per ring, so only products and powers rewrite.
"""

from __future__ import annotations

import re


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_MINUS = {"-", "−"}  # ASCII hyphen and the unicode minus sign

# One token after optional whitespace: a run of decimal digits, a word
# that does not start with one, or any other single character; at the
# end of the text no group matches.  In a str pattern \s and \d are
# exactly str.isspace and str.isdecimal, but \w also takes characters
# that are numeric without being decimal, such as a superscript two.
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|(.))?")


def _name_length(word):
    """Length of the longest prefix of a \\w word made of letters, decimal
    digits and '_'.  The word does not start with a decimal digit, so a
    nonempty prefix is a name; 0 means it starts with a numeral such as
    a superscript two."""
    if word.isascii():
        return len(word)
    for n, ch in enumerate(word):
        if not (ch.isalpha() or ch.isdecimal() or ch == "_"):
            return n
    return len(word)


def _tokenize(text):
    tokens = []
    match = _TOKEN.match
    pos = 0
    while True:
        found = match(text, pos)
        group = found.lastindex
        if group is None:
            tokens.append(("end", None, len(text)))
            return tokens
        start, pos = found.span(group)
        value = found[group]
        if group == 1:
            tokens.append(("int", int(value), start))
        elif group == 2:
            n = _name_length(value)
            if n < len(value):
                raise ParseError(f"unexpected character {value[n]!r}", start + n)
            tokens.append(("name", value, start))
        elif value in _MINUS:
            tokens.append(("op", "-", start))
        elif value in "+*^()":
            tokens.append(("op", value, start))
        else:
            raise ParseError(f"unexpected character {value!r}", start)


class _Parser:
    def __init__(self, tokens, atom, one):
        self.tokens = tokens
        self.pos = 0
        self.atom = atom
        self.one = one

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, position = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", position)

    def parse_expr(self):
        value = self.parse_term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in ("+", "-"):
                self.take()
                rhs = self.parse_term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op == "*":
                self.take()
                value = value * self.parse_factor()
            else:
                return value

    def parse_factor(self):
        negations = 0
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op == "-":
                self.take()
                negations += 1
            else:
                break
        value = self.parse_atom()
        kind, op, position = self.peek()
        if kind == "op" and op == "^":
            self.take()
            kind, exponent, position = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal", position)
            value = value ** exponent
        if negations % 2:
            value = -value
        return value

    def parse_atom(self):
        kind, value, position = self.take()
        if kind == "int":
            return self.one * value
        if kind == "name":
            return self.atom(value, position)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, name or parenthesis", position)


def evaluate(text, atom, one):
    """Value of the expression text; atom(name, position) resolves a name."""
    parser = _Parser(_tokenize(text), atom, one)
    value = parser.parse_expr()
    kind, _, position = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", position)
    return value


def parse_expression(ring, text):
    """Parse text into a normalized element of the ring.

    In H-type rings the name `t` is accepted for the square of the
    degree-one torsion class `t12`.
    """
    names = {g.name for g in ring.generators}
    t_alias = "t" not in names and "t12" in names

    def atom(name, position):
        if name == "t" and t_alias:
            return ring.gen("t12") ** 2
        try:
            return ring.gen(name)
        except KeyError:
            raise ParseError(f"unknown generator {name!r} in ring {ring.name}",
                             position) from None

    return evaluate(text, atom, ring.one())
