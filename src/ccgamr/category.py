"""CCG category trees: parsing, printing, feature unification, arity.

Surface syntax uses bracketed features and the usual left-associative
slashes, so ``S[b]\\NP/NP`` is ``(S[b]\\NP)/NP``.  A bare atom unifies with
a featured atom of the same base; two distinct features never unify.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache

ATOM_BASES = ("S", "NP", "N", "PP", "Conj")

FORWARD = "/"
BACKWARD = "\\"


class CategoryError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Atom:
    base: str
    feature: str | None = None


#: The live functor of each (result, slash, argument) value.
_LIVE: weakref.WeakValueDictionary[tuple, "Functor"] = weakref.WeakValueDictionary()
_LIVE_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False, init=False)
class Functor:
    """A functor category, hash-consed: building an equal value returns the
    live object, so ``==`` and ``hash`` are identity and never recurse."""

    __slots__ = ("result", "slash", "argument", "__weakref__")
    result: "Category"
    slash: str
    argument: "Category"

    def __new__(cls, result: "Category", slash: str, argument: "Category") -> "Functor":
        key = (result, slash, argument)
        with _LIVE_LOCK:
            self = _LIVE.get(key)
            if self is None:
                self = object.__new__(cls)
                object.__setattr__(self, "result", result)
                object.__setattr__(self, "slash", slash)
                object.__setattr__(self, "argument", argument)
                _LIVE[key] = self
        return self

    def __repr__(self) -> str:
        # the dataclass's text
        return _printed(self, repr, lambda f: (
            ")", f.argument, f", slash={f.slash!r}, argument=", f.result, "Functor(result="
        ))

    def __reduce__(self):
        # Rebuilt through Functor() on unpickling, so the copy is the live
        # object.  The pickle holds a flat list of subterms, so it never recurses.
        return _from_terms, (_terms(self),)


def _terms(cat: "Category") -> list:
    """The distinct subterms of ``cat`` in post-order, ``cat`` last: an atom
    as itself, a functor as (result index, slash, argument index)."""
    index: dict[int, int] = {}  # id of a subterm -> its position in terms
    terms: list = []
    stack = [cat]
    while stack:
        c = stack[-1]
        if id(c) in index:
            stack.pop()
            continue
        if c.__class__ is Functor:
            todo = [x for x in (c.argument, c.result) if id(x) not in index]
            if todo:
                stack += todo
                continue
            term = (index[id(c.result)], c.slash, index[id(c.argument)])
        else:
            term = c
        stack.pop()
        index[id(c)] = len(terms)
        terms.append(term)
    return terms


def _from_terms(terms: list) -> "Category":
    built: list = []
    for t in terms:
        built.append(Functor(built[t[0]], t[1], built[t[2]]) if t.__class__ is tuple else t)
    return built[-1]


Category = Atom | Functor

#: Deepest parenthesised nesting ``parse_category`` accepts.
MAX_DEPTH = 500

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z]+)|(?P<feat>\[[A-Za-z0-9]+\])|(?P<punct>[()/\\])|(?P<bad>\S))")


@lru_cache(maxsize=1024)  # errors are not cached: each bad text reports its own
def parse_category(text: str) -> Category:
    tokens: list[tuple[str | None, str, int]] = []
    for m in _TOKEN_RE.finditer(text):  # trailing whitespace matches nothing
        kind = m.lastgroup
        at = m.start(kind)
        if kind == "bad":
            raise CategoryError(f"bad category syntax at offset {at}: {text[at:]!r}")
        tokens.append((kind, m[kind], at))
    tokens.append((None, "", len(text)))  # the end of input

    i = 0
    # An explicit stack of the expressions that enclose each open '(': the
    # operand so far and the slash waiting for its argument.
    enclosing: list[tuple[Category | None, str | None]] = []
    cat: Category | None = None
    slash: str | None = None
    while True:
        kind, value, at = tokens[i]
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
        kind, value2, _ = tokens[i]
        if kind == "feat":
            feature = value2[1:-1]
            i += 1
        done: Category = Atom(value, feature)
        while True:  # attach the finished item, closing parentheses after it
            cat = done if cat is None else Functor(cat, slash, done)
            kind, value, at = tokens[i]
            if kind == "punct" and value in (FORWARD, BACKWARD):
                slash = value
                i += 1
                break
            if not enclosing:
                if kind is not None:
                    raise CategoryError(f"trailing category input at offset {at}")
                return cat
            if not (kind == "punct" and value == ")"):
                raise CategoryError(f"expected ')' at offset {at}")
            i += 1
            done = cat
            cat, slash = enclosing.pop()


def _printed(cat: Category, atom, layout) -> str:
    """The text of ``cat``: ``atom`` spells an atom and ``layout`` gives a
    functor's pieces, literal text and subcategories, last first.  The
    pieces wait on an explicit stack, so deep trees never recurse."""
    parts: list[str] = []
    stack: list[Category | str] = [cat]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
        elif item.__class__ is Functor:
            stack += layout(item)
        else:
            parts.append(atom(item))
    return "".join(parts)


def _spelled(atom: Atom) -> str:
    return atom.base if atom.feature is None else f"{atom.base}[{atom.feature}]"


def _laid_out(f: Functor) -> tuple:
    # slashes associate to the left, so only a functor argument is bracketed
    if f.argument.__class__ is Functor:
        return ")", f.argument, f.slash + "(", f.result
    return f.argument, f.slash, f.result


def format_category(cat: Category) -> str:
    return _printed(cat, _spelled, _laid_out)


def arity(cat: Category) -> int:
    """Number of arguments along the result spine."""
    n = 0
    while isinstance(cat, Functor):
        n += 1
        cat = cat.result
    return n


def unify(x: Category, y: Category) -> Category | None:
    """Most-specific common instance, or None on mismatch."""
    # An explicit stack, so deep categories never recurse.  A functor pair is
    # pushed to rebuild (flag True) under its two child pairs; each finished
    # pair leaves its unifier on ``done``.
    done: list[Category] = []
    todo: list[tuple[Category, Category, bool]] = [(x, y, False)]
    while todo:
        a, b, rebuild = todo.pop()
        if rebuild:
            arg = done.pop()
            done.append(Functor(done.pop(), a.slash, arg))
        elif a is b:
            done.append(a)
        elif a.__class__ is not b.__class__:
            return None
        elif a.__class__ is Atom:
            if a.base != b.base:
                return None
            if a.feature is None:
                done.append(b)
            elif b.feature is None or a.feature == b.feature:
                done.append(a)
            else:
                return None
        elif a.slash != b.slash:
            return None
        else:
            todo += ((a, b, True), (a.argument, b.argument, False), (a.result, b.result, False))
    return done[0]
