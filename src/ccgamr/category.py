"""CCG category trees: parsing, printing, feature unification, arity.

Surface syntax uses bracketed features and the usual left-associative
slashes, so ``S[b]\\NP/NP`` is ``(S[b]\\NP)/NP``.  A bare atom unifies with
a featured atom of the same base; two distinct features never unify.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from .graph import AmrSubgraph

ATOM_BASES = ("S", "NP", "N", "PP", "Conj")

FORWARD = "/"
BACKWARD = "\\"


class CategoryError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Atom:
    base: str
    feature: str | None = None


@dataclass(frozen=True, slots=True)
class Functor:
    result: "Category"
    slash: str
    argument: "Category"
    # Hashed once from the children's stored hashes, so hashing never recurses.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.result, self.slash, self.argument)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling: string hashes differ between processes
        return Functor, (self.result, self.slash, self.argument)


Category = Union[Atom, Functor]

#: Deepest parenthesised nesting ``parse_category`` accepts.
MAX_DEPTH = 500

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z]+)|(?P<feat>\[[A-Za-z0-9]+\])|(?P<punct>[()/\\]))")


def parse_category(text: str) -> Category:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            if text[pos:].strip() == "":
                break
            raise CategoryError(f"bad category syntax at offset {pos}: {text[pos:]!r}")
        tokens.append((m.lastgroup, m.group().strip(), m.start()))
        pos = m.end()

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, "", len(text))

    # An explicit stack of the expressions that enclose each open '(': the
    # operand so far and the slash waiting for its argument.
    enclosing: list[tuple[Category | None, str | None]] = []
    cat: Category | None = None
    slash: str | None = None
    while True:
        kind, value, at = peek()
        if kind == "punct" and value == "(":
            if len(enclosing) >= MAX_DEPTH:
                raise CategoryError(f"nesting deeper than {MAX_DEPTH} levels at offset {at}")
            enclosing.append((cat, slash))
            cat = slash = None
            i += 1
            continue
        if kind != "name":
            raise CategoryError(f"expected a category at offset {at}")
        i += 1
        if value not in ATOM_BASES:
            raise CategoryError(f"unknown atomic category {value!r} at offset {at}")
        feature = None
        kind, value2, _ = peek()
        if kind == "feat":
            feature = value2[1:-1]
            i += 1
        done: Category = Atom(value, feature)
        while True:  # attach the finished item, closing parentheses after it
            cat = done if cat is None else Functor(cat, slash, done)
            kind, value, at = peek()
            if kind == "punct" and value in (FORWARD, BACKWARD):
                slash = value
                i += 1
                break
            if not enclosing:
                if i != len(tokens):
                    raise CategoryError(f"trailing category input at offset {at}")
                return cat
            if not (kind == "punct" and value == ")"):
                raise CategoryError(f"expected ')' at offset {at}")
            i += 1
            done = cat
            cat, slash = enclosing.pop()


def format_category(cat: Category) -> str:
    parts: list[str] = []
    # categories still to print and literal text, innermost-leftmost on top
    stack: list[Category | str] = [cat]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Atom):
            parts.append(item.base if item.feature is None else f"{item.base}[{item.feature}]")
        elif isinstance(item.argument, Functor):
            stack += (")", item.argument, item.slash + "(", item.result)
        else:
            stack += (item.argument, item.slash, item.result)
    return "".join(parts)


def arity(cat: Category) -> int:
    """Number of arguments along the result spine."""
    n = 0
    while isinstance(cat, Functor):
        n += 1
        cat = cat.result
    return n


def unify(x: Category, y: Category) -> Category | None:
    """Most-specific common instance, or None on mismatch."""
    if isinstance(x, Atom) and isinstance(y, Atom):
        if x.base != y.base:
            return None
        if x.feature is None:
            return y
        if y.feature is None or x.feature == y.feature:
            return x
        return None
    if isinstance(x, Functor) and isinstance(y, Functor):
        if x.slash != y.slash:
            return None
        res = unify(x.result, y.result)
        arg = unify(x.argument, y.argument)
        if res is None or arg is None:
            return None
        return Functor(res, x.slash, arg)
    return None


def check_iso_principle(cat: Category, semantics: object) -> list[str]:
    """Functional-isomorphism violations for a category/semantics pairing.

    Identity semantics is always acceptable.  For graph semantics the number
    of free variables may not exceed the category's arity, a functor category
    needs at least one semantic argument, and an atomic category allows none.
    """
    if not isinstance(semantics, AmrSubgraph):
        return []
    n = len(semantics.fv)
    a = arity(cat)
    problems = []
    if n > a:
        problems.append(f"{n} free variables exceed arity {a} of {format_category(cat)}")
    if a >= 1 and n == 0:
        problems.append(f"functor category {format_category(cat)} needs at least one free variable")
    if a == 0 and n > 0:
        problems.append(f"atomic category {format_category(cat)} allows no free variables")
    return problems
