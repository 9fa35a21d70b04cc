"""Word-to-entry mapping loaded from pipe-separated text files.

One entry per line::

    token | category | semantics-or-ID [| id]

``#`` starts a comment, except inside a double-quoted literal such as
``:op1 "#ccg"``.  The semantics field is either ``ID`` (identity) or a
PENMAN-FV graph.  Entry ids default to ``token.N`` with N counting entries
for the same token in file order.  Every entry must satisfy the
functional-isomorphism principle and its graph must validate; violations are
collected and reported together.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from . import penman
from .category import Category, CategoryError, check_iso_principle, parse_category
from .combinator import IDENTITY, Identity
# validate stays importable here: bench/tracing.py wraps lexicon.validate
from .graph import AmrSubgraph, validate  # noqa: F401


_CODE_RE = re.compile(r'[^"#]*(?:"[^"]*"?[^"#]*)*')  # a line up to its first '#' outside quotes


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


@dataclass
class Lexicon:
    entries: list[LexEntry] = field(default_factory=list)

    def __post_init__(self):
        self._by_token: dict[str, list[LexEntry]] = {}
        self._by_id: dict[str, LexEntry] = {}
        for e in self.entries:
            self._index(e)

    def _index(self, entry: LexEntry) -> None:
        self._by_token.setdefault(entry.token, []).append(entry)
        self._by_id[entry.entry_id] = entry

    def lookup(self, token: str) -> list[LexEntry]:
        return list(self._by_token.get(token, []))

    def entry(self, entry_id: str) -> LexEntry:
        if entry_id not in self._by_id:
            raise KeyError(f"no lexical entry with id {entry_id!r}")
        return self._by_id[entry_id]

    def tokens(self) -> list[str]:
        return sorted(self._by_token)


def loads(text: str, source: str = "<string>") -> Lexicon:
    entries: list[LexEntry] = []
    problems: list[str] = []
    counts: dict[str, int] = {}
    ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE_RE.match(raw).group().strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) not in (3, 4):
            problems.append(f"{source}:{lineno}: expected 3 or 4 pipe-separated fields")
            continue
        token, cat_text, sem_text = parts[0], parts[1], parts[2]
        counts[token] = counts.get(token, 0) + 1
        entry_id = parts[3] if len(parts) == 4 else f"{token}.{counts[token]}"
        if entry_id in ids:
            problems.append(f"{source}:{lineno}: duplicate entry id {entry_id!r}")
            continue
        try:
            category = parse_category(cat_text)
        except CategoryError as err:
            problems.append(f"{source}:{lineno}: {err}")
            continue
        semantics: AmrSubgraph | Identity
        if sem_text == "ID":
            semantics = IDENTITY
        else:
            try:
                semantics = penman.parse(sem_text)
            except penman.PenmanError as err:  # parse also validates the graph
                problems.append(f"{source}:{lineno}: {err}")
                continue
        for violation in check_iso_principle(category, semantics):
            problems.append(f"{source}:{lineno}: entry {entry_id!r}: {violation}")
        ids.add(entry_id)
        entries.append(LexEntry(entry_id, token, category, semantics))
    if problems:
        raise LexiconError(problems)
    return Lexicon(entries)


def load(path: str | Path) -> Lexicon:
    path = Path(path)
    return loads(path.read_text(encoding="utf-8"), source=path.name)
