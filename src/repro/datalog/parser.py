"""Parser for Datalog programs, sharing the CQ tokenizer conventions.

A program is a sequence of rules separated by periods; ``%`` starts a
line comment.  Facts are rules without a body.  Nullary atoms may be
written with or without parentheses (``Q`` or ``Q()``).

>>> program = parse_program('''
...     P(X, Y) :- E(X, Y).
...     P(X, Y) :- P(X, Z), E(Z, W), E(W, Y).
...     Q :- P(X, X).
... ''', goal="Q")
>>> program.width()
4
"""

from __future__ import annotations

import re

from repro.cq.parser import _Cursor, _tokenize, parse_term
from repro.cq.query import Atom
from repro.datalog.syntax import Program, Rule
from repro.errors import ParseError

__all__ = ["parse_program", "parse_rule"]

_COMMENT = re.compile(r"%[^\n]*")


def _parse_atom_maybe_nullary(cur: _Cursor) -> Atom:
    kind, name = cur.next()
    if kind != "name":
        raise ParseError(f"expected a predicate name, got {name!r}")
    tok = cur.peek()
    if tok is None or tok[1] != "(":
        return Atom(name, ())
    cur.next()
    terms = []
    tok = cur.peek()
    if tok and tok[1] == ")":
        cur.next()
        return Atom(name, terms)
    while True:
        terms.append(parse_term(cur.next()))
        kind, value = cur.next()
        if value == ")":
            return Atom(name, terms)
        if value != ",":
            raise ParseError(f"expected ',' or ')', got {value!r}")


def _parse_rule(cur: _Cursor) -> Rule:
    head = _parse_atom_maybe_nullary(cur)
    tok = cur.peek()
    if tok is None or tok[1] == ".":
        if tok is not None:
            cur.next()
        return Rule(head, ())
    if tok[1] != ":-":
        raise ParseError(f"expected ':-' or '.', got {tok[1]!r}")
    cur.next()
    body = [_parse_atom_maybe_nullary(cur)]
    while True:
        tok = cur.peek()
        if tok is None:
            return Rule(head, body)
        if tok[1] == ",":
            cur.next()
            body.append(_parse_atom_maybe_nullary(cur))
        elif tok[1] == ".":
            cur.next()
            return Rule(head, body)
        else:
            raise ParseError(f"expected ',' or '.', got {tok[1]!r}")


def parse_rule(text: str) -> Rule:
    """Parse a single rule (or fact)."""
    cur = _Cursor(_tokenize(_COMMENT.sub("", text)))
    rule = _parse_rule(cur)
    if cur.peek() is not None:
        raise ParseError("trailing input after rule")
    return rule


def parse_program(text: str, goal: str | None = None) -> Program:
    """Parse a whole program; ``goal`` designates the goal predicate, and
    ``None`` takes the head predicate of the first rule."""
    cur = _Cursor(_tokenize(_COMMENT.sub("", text)))
    rules = []
    while cur.peek() is not None:
        rules.append(_parse_rule(cur))
    if goal is None and rules:
        goal = rules[0].head.predicate
    return Program(rules, goal)
