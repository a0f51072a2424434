"""Dependency parses and their reshaping into aspect-word interactive graphs.

A parsed sentence arrives as a CoNLL-U tree. For a given aspect span the
tree is contracted (all aspect tokens become one super-node) and traversed
breadth-first, undirected; every context word within kappa_max hops becomes
a word node whose edge carries the composed dependency tag: the relation
labels along the shortest path plus the hop count, rendered
"dep1:dep2:...:depK:K". An Awig stores each word node as its token index
and each edge as its path alone: a node's id is its position and a tag's
hop count is its path's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class ParseError(ValueError):
    """Malformed CoNLL-U input or an invalid dependency tree."""


@dataclass
class DepTree:
    """One sentence's dependency parse.

    heads are 1-based (0 marks the root); rels holds the relation tag of the
    edge from each token to its head. Validation guarantees a single root and
    an acyclic, connected head relation.
    """

    tokens: list[str]
    heads: list[int]
    rels: list[str]

    def __post_init__(self):
        self.validate()

    def __len__(self) -> int:
        return len(self.tokens)

    def validate(self) -> None:
        heads = self.heads
        n = len(self.tokens)
        if not (len(heads) == len(self.rels) == n):
            raise ParseError(
                f"tree arrays disagree: {n} tokens, {len(heads)} heads, {len(self.rels)} rels"
            )
        if n == 0:
            raise ParseError("empty tree")
        for i, h in enumerate(heads, start=1):
            if not 0 <= h <= n:
                raise ParseError(f"token {i}: head {h} outside [0, {n}]")
            if h == i:
                raise ParseError(f"token {i} is its own head")
        # Walk each head chain, marking its tokens with the walk's start; a
        # walk that meets its own mark before the root has gone round a cycle.
        mark = [0] * (n + 1)
        mark[0] = -1  # the root's parent: every walk stops there
        for start in range(1, n + 1):
            node = start
            while not mark[node]:
                mark[node] = start
                node = heads[node - 1]
            if mark[node] == start:
                cycle = [node]
                nxt = heads[node - 1]
                while nxt != node:
                    cycle.append(nxt)
                    nxt = heads[nxt - 1]
                raise ParseError(f"cycle in heads through tokens {cycle}")
        roots = heads.count(0)
        if roots != 1:
            raise ParseError(f"expected exactly one root, found {roots}")


def parse_conllu(text: str) -> list[DepTree]:
    """Parse CoNLL-U text into validated trees.

    Lines end at "\n" only (read_text has turned every line end into one),
    so a comment or a FORM may hold any other character. Comment lines start
    with '#'; sentences are separated by empty lines, and a line of only
    whitespace (a space, a form feed) is an error, not a break, as in the UD
    validator; multiword-token ranges ("3-4") and empty nodes ("3.1") are
    skipped. The word IDs of each sentence must run 1, 2, 3, ..., and IDs
    and HEADs alike are plain decimals: ASCII digits with no sign,
    underscore, space or leading zero ("+1", "0_1", "01" are refused).
    Errors carry the 1-based line number: a word's own line for its ID and
    HEAD columns and for a whitespace line, the sentence's first line for
    what the whole tree breaks (a cycle, a second root).
    """
    trees: list[DepTree] = []
    tokens: list[str] = []
    heads: list[int] = []
    rels: list[str] = []
    first_line = 0

    def flush():
        nonlocal tokens, heads, rels
        if not tokens:
            return
        try:
            trees.append(DepTree(tokens, heads, rels))
        except ParseError as e:
            raise ParseError(f"sentence starting at line {first_line}: {e}") from None
        tokens, heads, rels = [], [], []

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            flush()
            continue
        if line.isspace():
            raise ParseError(f"line {lineno}: a line of only whitespace is not a sentence "
                             f"break: {line!r}")
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"line {lineno}: expected 10 tab-separated columns, got {len(cols)}")
        tok_id = cols[0]
        if "-" in tok_id or "." in tok_id:
            continue  # multiword range / empty node
        word_id = len(tokens) + 1
        if tok_id != str(word_id):
            raise ParseError(f"line {lineno}: expected word ID {word_id}, got {tok_id!r}")
        if not tokens:
            first_line = lineno
        try:
            head = int(cols[6]) if cols[6].isascii() and cols[6].isdigit() else None
        except ValueError:  # more digits than int() converts
            head = None
        if head is None or str(head) != cols[6]:
            raise ParseError(f"line {lineno}: HEAD column is not an integer: {cols[6]!r}")
        if head == word_id:
            raise ParseError(f"line {lineno}: word {word_id} is its own head")
        tokens.append(cols[1])
        heads.append(head)
        rels.append(cols[7])
    flush()
    return trees


@dataclass
class Awig:
    """Star graph around one contracted aspect node.

    Word node i stands for token words[i], in ascending token order; its
    edge to the aspect node carries paths[i], the relation labels along the
    path from the aspect, and its hop count is len(paths[i]). Aspect-source
    tokens never appear as word nodes.
    """

    aspect_token_ids: list[int]
    words: list[int]
    paths: list[tuple[str, ...]]

    @property
    def num_words(self) -> int:
        return len(self.words)

    def to_json_dict(self, tokens: Sequence[str]) -> dict:
        return {
            "aspect_tokens": list(self.aspect_token_ids),
            "nodes": [{"token": tok, "text": tokens[tok]} for tok in self.words],
            "edges": [
                {
                    "node": node_id,
                    "path": list(path),
                    "hops": len(path),
                    "tag": ":".join(path) + f":{len(path)}",
                }
                for node_id, path in enumerate(self.paths)
            ],
        }


def build_awig(tree: DepTree, span: tuple[int, int], kappa_max: int,
               drop_punct: bool = False) -> Awig:
    """Contract the aspect span to one node and BFS outward, undirected.

    span is (start, end) inclusive, 0-based. Every token reached within
    kappa_max hops becomes a word node; its edge records the relation labels
    along the BFS shortest path (ties broken by smallest token index), whose
    length is the hop count. Tokens further than kappa_max hops are
    discarded. With drop_punct, tree edges labelled "punct" are invisible to
    the traversal.

    One pass over heads groups each token's children. A level of the BFS
    expands its frontier in ascending token order, so a token is claimed by
    the smallest frontier token next to it, whatever order each token's
    neighbours are visited in: only the frontiers are sorted.
    """
    n = len(tree)
    s, e = span
    if not (0 <= s <= e < n):
        raise ValueError(f"invalid aspect span [{s}, {e}] for {n} tokens")
    if kappa_max < 1:
        raise ValueError("kappa_max must be at least 1")
    heads, rels = tree.heads, tree.rels
    children: list[list[int]] = [[] for _ in range(n + 1)]  # by 1-based head
    for child, h in enumerate(heads):
        children[h].append(child)

    # BFS from the contracted super-node; aspect-internal edges vanish.
    # paths holds every visited token, the aspect's with the empty path; a
    # token's own rel labels the edge to its head.
    paths: dict[int, tuple[str, ...]] = dict.fromkeys(range(s, e + 1), ())
    frontier = range(s, e + 1)
    words: list[int] = []
    for _ in range(kappa_max):
        nxt = []
        for u in frontier:
            base = paths[u]
            h = heads[u] - 1
            if h >= 0 and h not in paths and not (drop_punct and rels[u] == "punct"):
                paths[h] = base + (rels[u],)
                nxt.append(h)
            for v in children[u + 1]:
                if v not in paths and not (drop_punct and rels[v] == "punct"):
                    paths[v] = base + (rels[v],)
                    nxt.append(v)
        if not nxt:
            break
        nxt.sort()
        words += nxt
        frontier = nxt
    words.sort()
    return Awig(aspect_token_ids=list(range(s, e + 1)), words=words,
                paths=[paths[tok] for tok in words])
