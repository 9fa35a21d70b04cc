"""Word-to-entry mapping loaded from pipe-separated text files.

One entry per line::

    token | category | semantics-or-ID [| id]

``#`` starts a comment and ``|`` separates fields, except inside a
double-quoted literal such as ``:op1 "#ccg"`` or ``:op1 "a|b"``, where both
are literal text.  The semantics field is either ``ID`` (identity) or a
PENMAN-FV graph.  Entry ids default to ``token.N`` with N counting entries
for the same token in file order; an id must be one derivation-script
token (no whitespace or parentheses).  Categories are interned, so entries
with equal category text share one object.  Every entry must satisfy the
functional-isomorphism principle and its graph must validate; violations are
collected and reported together.

``loads`` memoises its last 8 texts, keyed by the text alone, so reloading
an unchanged lexicon in one process under any source name returns the same
immutable ``Lexicon`` without parsing or checking it again.  Errors are not
cached: a bad text reports its problems, prefixed with the caller's source
name, on every call.  ``load`` reads its file on every call.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import lru_cache

from . import penman
from .category import Category, CategoryError, parse_category
from .combinator import IDENTITY, Identity, check_iso_principle
from .graph import AmrSubgraph
from .graph import validate  # noqa: F401 (bench/tracing.py wraps it)


_CODE_RE = re.compile(r'[^"#]*(?:"[^"]*"?[^"#]*)*')  # a line up to its first '#' outside quotes
_FIELD_RE = re.compile(r'(?:^|\|)([^"|]*(?:"[^"]*"?[^"|]*)*)')  # each field; '|' in quotes is literal
_ID_RE = re.compile(r"[^\s()]+")  # one derivation-script token


class LexiconError(Exception):
    def __init__(self, problems: list[str]):
        super().__init__("\n".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class LexEntry:
    entry_id: str
    token: str
    category: Category
    semantics: AmrSubgraph | Identity


@dataclass(frozen=True)
class Lexicon:
    """Immutable: ``loads`` hands one object to every caller of the same text."""

    entries: tuple[LexEntry, ...] = ()
    _by_token: dict[str, tuple[LexEntry, ...]] = field(init=False, repr=False, compare=False)
    _by_id: dict[str, LexEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(self.entries)  # a list passed in becomes a tuple
        by_token: dict[str, list[LexEntry]] = {}
        for e in entries:
            by_token.setdefault(e.token, []).append(e)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_token", {t: tuple(es) for t, es in by_token.items()})
        object.__setattr__(self, "_by_id", {e.entry_id: e for e in entries})

    def lookup(self, token: str) -> list[LexEntry]:
        return list(self._by_token.get(token, ()))

    def entry(self, entry_id: str) -> LexEntry:
        if entry_id not in self._by_id:
            raise KeyError(f"no lexical entry with id {entry_id!r}")
        return self._by_id[entry_id]

    def tokens(self) -> list[str]:
        return sorted(self._by_token)


def loads(text: str, source: str = "<string>") -> Lexicon:
    try:
        return _parsed(text)
    except LexiconError as err:
        raise LexiconError([f"{source}:{p}" for p in err.problems]) from None


@lru_cache(maxsize=8)  # errors are not cached: each bad text reports its own
def _parsed(text: str) -> Lexicon:
    """The lexicon ``text`` spells; each problem starts with its line number."""
    entries: list[LexEntry] = []
    problems: list[str] = []
    counts: dict[str, int] = {}
    ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE_RE.match(raw).group().strip()
        if not line:
            continue
        parts = [p.strip() for p in _FIELD_RE.findall(line)]
        if len(parts) not in (3, 4):
            problems.append(f"{lineno}: expected 3 or 4 pipe-separated fields")
            continue
        token, cat_text, sem_text = parts[0], parts[1], parts[2]
        counts[token] = counts.get(token, 0) + 1
        entry_id = parts[3] if len(parts) == 4 else f"{token}.{counts[token]}"
        if not _ID_RE.fullmatch(entry_id):
            problems.append(f"{lineno}: entry id {entry_id!r} is not one script token")
            continue
        if entry_id in ids:
            problems.append(f"{lineno}: duplicate entry id {entry_id!r}")
            continue
        try:
            category = parse_category(cat_text)
        except CategoryError as err:
            problems.append(f"{lineno}: {err}")
            continue
        semantics: AmrSubgraph | Identity
        if sem_text == "ID":
            semantics = IDENTITY
        else:
            try:
                semantics = penman.parse(sem_text)
            except penman.PenmanError as err:  # parse also validates the graph
                problems.append(f"{lineno}: {err}")
                continue
        for violation in check_iso_principle(category, semantics):
            problems.append(f"{lineno}: entry {entry_id!r}: {violation}")
        ids.add(entry_id)
        entries.append(LexEntry(entry_id, token, category, semantics))
    if problems:
        raise LexiconError(problems)
    return Lexicon(entries)


def load(path: str | os.PathLike[str]) -> Lexicon:
    # open, not Path: pathlib interns each part of the name, so every new file
    # name adds to CPython's interned-string table, which then gets rebuilt
    # (about 0.4 MB at once) every few thousand calls of an in-process caller
    with open(path, encoding="utf-8-sig") as f:
        text = f.read()
    return loads(text, source=os.path.basename(path))
