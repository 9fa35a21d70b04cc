"""Extended PENMAN text format for AMR subgraphs with free variables.

On top of ordinary PENMAN this grammar adds ``?k`` tokens for the k-th free
variable and ``:?`` for an underspecified role.  Inverse roles (``:rel-of``)
are a serialization device only: the parser stores every edge in its forward
direction and the serializer re-derives ``-of`` whenever it has to walk an
edge backwards to reach an unvisited node.

Accepted node forms::

    (v / concept :rel node ...)    definition with relations
    (concept :rel node ...)        anonymous constant with relations
    (v :rel node ...)              re-open an already defined variable
    (?k :rel node ...)             free variable with relations
    v / concept                    leaf definition, parens optional
    v | ?k | "literal" | bareword  mentions / constants

A bareword resolves to a previously defined variable of the same name when
one exists, otherwise it is a fresh constant.  Repeated ``?k`` tokens are
reentrant mentions of one node, never copies.

``parse`` memoises its last 1,024 texts in a bounded cache, so an equal text
parsed again is the same immutable graph, checked once.  Errors are not
cached: a bad text reports its own error on every call.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .graph import UNDERSPECIFIED, AmrSubgraph, Edge, Node, validate

__all__ = ["parse", "serialize", "PenmanError", "PenmanSyntaxError"]


#: Deepest parenthesised nesting ``parse`` accepts.
MAX_DEPTH = 500


class PenmanError(ValueError):
    pass


class PenmanSyntaxError(PenmanError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<slash>/)
    | (?P<role>:[^\s()/]+)
    | (?P<string>"[^"]*")
    | (?P<fvar>\?[0-9]+)
    | (?P<atom>[^\s()/:?"][^\s()/:"]*)
    | (?P<bad>\S)
    )""",
    re.VERBOSE,
)
_ROLE_RE = re.compile(r":[A-Za-z][A-Za-z0-9-]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):  # trailing whitespace matches nothing
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "bad":
            raise PenmanSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((kind, m[kind], pos))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = [*_tokenize(text), (None, "", len(text))]  # ends with an end-of-input token
        self.i = 0
        self.concepts: list[str | None] = []
        self.edges: list[tuple[int, str, int] | None] = []
        self.seen_edges: set[tuple[int, str, int]] = set()
        self.vars: dict[str, int] = {}
        self.fvs: dict[int, int] = {}  # fv index -> node id

    def _peek(self):
        return self.tokens[self.i]

    def _next(self):
        tok = self.tokens[self.i]
        if tok[0] is None:
            raise PenmanSyntaxError("unexpected end of input", tok[2])
        self.i += 1
        return tok

    def _new_node(self, concept: str | None) -> int:
        self.concepts.append(concept)
        return len(self.concepts) - 1

    def _fv_node(self, token: str) -> int:
        index = int(token[1:])
        if index not in self.fvs:
            self.fvs[index] = self._new_node(None)
        return self.fvs[index]

    def parse_node(self, depth: int = 1) -> int:
        kind, value, pos = self._peek()
        if kind != "lparen":
            return self._head()
        if depth > MAX_DEPTH:
            raise PenmanSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", pos)
        self._next()
        node = self._head()
        # one Python frame per nesting level, so MAX_DEPTH stays well under
        # the interpreter's recursion limit
        while self._peek()[0] == "role":
            _, role, rpos = self._next()
            inverse = role.endswith("-of")
            label = role[:-3] if inverse else role
            if label != UNDERSPECIFIED and not _ROLE_RE.fullmatch(label):
                raise PenmanSyntaxError(f"malformed role {role!r}", rpos)
            slot = len(self.edges)  # keep textual edge order despite recursion
            self.edges.append(None)
            child = self.parse_node(depth + 1)
            edge = (child, label, node) if inverse else (node, label, child)
            if edge in self.seen_edges:
                del self.edges[slot]
            else:
                self.seen_edges.add(edge)
                self.edges[slot] = edge
        kind, value, pos = self._next()
        if kind != "rparen":
            raise PenmanSyntaxError(f"expected ')', found {value!r}", pos)
        return node

    def _head(self) -> int:
        kind, value, pos = self._next()
        if kind == "fvar":
            return self._fv_node(value)
        if kind == "string":
            return self._new_node(value)
        if kind != "atom":
            raise PenmanSyntaxError(f"expected a node, found {value!r}", pos)
        if self._peek()[0] == "slash":
            return self._define_var(value, pos)
        if value in self.vars:
            return self.vars[value]  # re-opened variable
        return self._new_node(value)

    def _define_var(self, var: str, pos: int) -> int:
        self._next()  # slash
        kind, concept, cpos = self._next()
        if kind not in ("atom", "string"):
            raise PenmanSyntaxError(f"expected a concept after '/', found {concept!r}", cpos)
        if var in self.vars:
            raise PenmanSyntaxError(f"variable {var!r} defined twice", pos)
        node = self._new_node(concept)
        self.vars[var] = node
        return node

    def finish(self) -> AmrSubgraph:
        root = self.parse_node()
        kind, value, pos = self._peek()
        if kind is not None:
            raise PenmanSyntaxError(f"trailing input {value!r}", pos)
        indices = sorted(self.fvs)
        if indices and indices != list(range(1, len(indices) + 1)):
            raise PenmanError(
                f"free-variable indices must be 1..{len(indices)}, found {indices}"
            )
        nodes = tuple(Node(i, c) for i, c in enumerate(self.concepts))
        edges = tuple(Edge(*e) for e in self.edges)
        fv = tuple(self.fvs[k] for k in indices)
        graph = AmrSubgraph(nodes, edges, root, fv)
        problems = validate(graph)
        if problems:
            raise PenmanError("invalid graph: " + "; ".join(problems))
        return graph


@lru_cache(maxsize=1024)  # errors are not cached: each bad text reports its own
def parse(text: str) -> AmrSubgraph:
    return _Parser(text).finish()


def _is_literal(concept: str | None) -> bool:
    return concept is not None and concept.startswith('"')


class _Serializer:
    def __init__(self, g: AmrSubgraph, indent: int | None):
        self.g = g
        self.indent = indent
        self.names: dict[int, str] = {}
        self.taken: set[str] = set()
        self.visited_nodes: set[int] = set()
        self.visited_edges: set[int] = set()
        self.incident: list[list[int]] = [[] for _ in g.nodes]
        for i, e in enumerate(g.edges):
            self.incident[e.source].append(i)
            if e.target != e.source:
                self.incident[e.target].append(i)

    def _name(self, node: int) -> str:
        if node not in self.names:
            concept = self.g.concept(node) or "x"
            stripped = concept.strip('"')
            letter = next((c.lower() for c in stripped if c.isalnum()), "x")
            name = letter
            k = 2
            while name in self.taken:
                name = f"{letter}{k}"
                k += 1
            self.taken.add(name)
            self.names[node] = name
        return self.names[node]

    def _pending(self, node: int) -> list[int]:
        return [i for i in self.incident[node] if i not in self.visited_edges]

    def _emit(self, root: int) -> str:
        """Depth-first over the graph with an explicit stack, so deep graphs do
        not recurse.  The stack holds (node, depth, text written before it)
        entries and the ``")"`` that closes each opened node."""
        g = self.g
        out: list[str] = []
        todo: list[tuple[int, int, str] | str] = [(root, 0, "")]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
                continue
            node, depth, prefix = item
            out.append(prefix)
            first = node not in self.visited_nodes
            self.visited_nodes.add(node)
            rels = self._pending(node) if first else []
            self.visited_edges.update(rels)
            concept = g.concept(node)
            if concept is None:
                head = f"?{g.fv_index(node)}"
                needs_var = False
            elif not first:  # a revisit writes only the name
                head = self._name(node)
            elif _is_literal(concept):
                # a literal only needs a variable if it is ever mentioned again
                needs_var = len(self.incident[node]) > 1 or bool(rels)
                head = f"{self._name(node)}/{concept}" if needs_var else concept
            else:
                head = f"{self._name(node)}/{concept}"
                needs_var = True
            if not first:
                out.append(head)
            elif not rels:
                out.append(f"({head})" if depth == 0 and needs_var else head)
            else:
                sep = " " if self.indent is None else "\n" + " " * (self.indent * (depth + 1))
                out.append("(" + head)
                todo.append(")")
                for i in reversed(rels):  # pushed last to first, so written in edge order
                    e = g.edges[i]
                    if e.source == node:
                        role, child = e.label, e.target
                    else:
                        role, child = e.label + "-of", e.source
                    todo.append((child, depth + 1, f"{sep}{role} "))
        return "".join(out)


def serialize(g: AmrSubgraph, indent: int | None = None) -> str:
    """Deterministic text for a valid graph; ``parse`` round-trips it."""
    return _Serializer(g, indent)._emit(g.root)
